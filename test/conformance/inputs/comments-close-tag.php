<?php /* multi
line */ # hash ?> after
<?php echo 'end'; // eof